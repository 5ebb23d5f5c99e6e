import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftwatch as dw
from driftwatch import estimator
from driftwatch.estimator import DegenerateWeightsError
from driftwatch.monitor import monitor_trajectory

G = dw.gaussian_kernel()


def make_series(values, times=None):
    values = np.asarray(values, dtype=float)
    times = np.arange(1.0, len(values) + 1.0) if times is None else np.asarray(times, float)
    return dw.TimeSeries(times=times, values=values)


def test_all_zero_series():
    cfg = dw.SmootherConfig(kernel=G, h=5.0)
    s = make_series(np.zeros(10))
    assert dw.nw_estimate(s, cfg, 10) == 0.0
    assert np.allclose(dw.nw_process(s, cfg), 0.0)


def test_constant_series():
    cfg = dw.SmootherConfig(kernel=G, h=3.0)
    s = make_series(np.full(8, 2.5))
    for n in (1, 4, 8):
        assert dw.nw_estimate(s, cfg, n) == pytest.approx(2.5)


def test_hand_case_epanechnikov():
    # weights K_2(-1) = K(-0.5)/2 and K_2(0) = K(0)/2; ratio = 11/7
    cfg = dw.SmootherConfig(kernel=dw.epanechnikov_kernel(), h=2.0)
    s = make_series([1.0, 2.0])
    k_half = 0.75 * (1 - 0.25)
    oracle = (k_half * 1.0 + 0.75 * 2.0) / (k_half + 0.75)
    assert dw.nw_estimate(s, cfg, 2) == pytest.approx(oracle)
    assert oracle == pytest.approx(11 / 7)


def test_process_matches_double_loop_oracle():
    rng = np.random.default_rng(5)
    y = rng.standard_normal(6)
    t = np.arange(1.0, 7.0)
    cfg = dw.SmootherConfig(kernel=G, h=2.5)
    got = dw.nw_process(make_series(y, t), cfg)
    for n in range(1, 7):
        num = sum(dw.eval_rescaled(G, 2.5, t[i] - t[n - 1]) * y[i] for i in range(n))
        den = sum(dw.eval_rescaled(G, 2.5, t[i] - t[n - 1]) for i in range(n))
        assert got[n - 1] == pytest.approx(num / den, rel=1e-12)


def test_process_end_matches_estimate():
    s = dw.generate(dw.SeriesSpec(N=30), 1)
    cfg = dw.SmootherConfig(kernel=G, h=10.0)
    assert dw.nw_process(s, cfg)[-1] == pytest.approx(dw.nw_estimate(s, cfg, 30), rel=1e-12)


def test_scaling_factors():
    k = G
    assert dw.scaled_statistic(3.14, dw.SmootherConfig(kernel=k, h=7, scaling="raw"), 100) == 3.14
    assert dw.scaled_statistic(
        1.0, dw.SmootherConfig(kernel=k, h=50, scaling="null_scale"), 100
    ) == pytest.approx(0.05)
    assert dw.scaled_statistic(
        1.0, dw.SmootherConfig(kernel=k, h=100, scaling="slow_alt_scale"), 100
    ) == pytest.approx(0.01)
    assert dw.scaled_statistic(
        1.0, dw.SmootherConfig(kernel=k, h=10, scaling="stationary_scale"), 100
    ) == pytest.approx(1.0)


def test_bad_scaling_rejected():
    with pytest.raises(ValueError):
        dw.SmootherConfig(kernel=G, h=1.0, scaling="bogus")


@settings(max_examples=25, deadline=None)
@given(
    delta=st.floats(min_value=-100, max_value=100),
    lam=st.floats(min_value=0.01, max_value=50),
)
def test_shift_and_scale_equivariance(delta, lam):
    rng = np.random.default_rng(11)
    y = rng.standard_normal(12)
    cfg = dw.SmootherConfig(kernel=G, h=4.0)
    base = dw.nw_estimate(make_series(y), cfg, 12)
    shifted = dw.nw_estimate(make_series(y + delta), cfg, 12)
    scaled = dw.nw_estimate(make_series(y * lam), cfg, 12)
    assert shifted == pytest.approx(base + delta, rel=1e-9, abs=1e-9)
    assert scaled == pytest.approx(base * lam, rel=1e-9, abs=1e-9)


def test_causality():
    rng = np.random.default_rng(3)
    y = rng.standard_normal(20)
    cfg = dw.SmootherConfig(kernel=G, h=6.0)
    at_8 = dw.nw_estimate(make_series(y), cfg, 8)
    y2 = y.copy()
    y2[8:] = 1e9
    assert dw.nw_estimate(make_series(y2), cfg, 8) == at_8


@pytest.mark.parametrize("layout", ["unit", "irregular", "fixed_design", "rolling_design"])
def test_batch_smoother_is_exactly_causal(layout):
    # rewriting the future must leave every earlier anchor bit-for-bit equal
    rng = np.random.default_rng(5)
    N, h = 60, 7.0
    times = None
    design = None
    if layout == "irregular":
        times = np.cumsum(rng.uniform(0.2, 2.0, N))
    elif layout == "fixed_design":
        design = dw.TimeDesign(gamma=1.7, mode="fixed")
    elif layout == "rolling_design":
        design = dw.TimeDesign(gamma=1.7)
    cfg = dw.SmootherConfig(kernel=G, h=h, scaling="null_scale", design=design)
    mcfg = dw.MonitorConfig(smoother=cfg, threshold=0.5, N=N, variance_method="gasser")
    prerun = make_series(np.cumsum(rng.standard_normal(8)))
    y = np.cumsum(rng.standard_normal(N))
    for n in (1, 9, 31, N - 1):
        y2 = y.copy()
        y2[n:] = 1e6 * rng.standard_normal(N - n)
        a, b = make_series(y, times), make_series(y2, times)
        assert np.array_equal(dw.nw_process(a, cfg)[:n], dw.nw_process(b, cfg)[:n])
        ta = monitor_trajectory(a, mcfg, prerun)[0][:n]
        tb = monitor_trajectory(b, mcfg, prerun)[0][:n]
        assert np.array_equal(ta, tb)


def test_degenerate_weights():
    # tabulated kernel vanishing at every needed argument
    k = dw.tabulated_kernel([-1.0, -0.5, 0.0, 0.5, 1.0], [0.0, 1.0, 0.0, 1.0, 0.0])
    cfg = dw.SmootherConfig(kernel=k, h=1.0)
    s = make_series([1.0, 2.0])
    with pytest.raises(DegenerateWeightsError):
        dw.nw_estimate(s, cfg, 2)


@pytest.mark.parametrize("times", [None, [0.5, 1.0, 2.5, 2.75, 4.0, 6.0]])
def test_kernel_right_of_zero_raises_at_the_first_eligible_index(times):
    # no record at or before an anchor lies in the support: the window is
    # empty, every weight vanishes, and no lag count goes negative
    k = dw.tabulated_kernel([1.0, 2.0, 3.0], [0.0, 1.0, 0.0])
    cfg = dw.SmootherConfig(kernel=k, h=2.0, scaling="null_scale")
    s = make_series(np.arange(6.0), times)
    num, den = estimator._process_parts(s.times, s.values[None, :], cfg)
    assert not num.any() and not den.any()
    with pytest.raises(DegenerateWeightsError) as err:
        dw.nw_process(s, cfg)
    assert err.value.index == 1
    with pytest.raises(DegenerateWeightsError) as err:
        dw.run_monitor(s, dw.MonitorConfig(cfg, 0.1, 6, start_fraction=0.5))
    assert err.value.index == 3


def test_unit_time_smoother_evaluates_each_lag_once(monkeypatch):
    # counts, not timing: on unit times every weight is one of the window's lags
    N, h = 5000, 5.0
    series = dw.generate(dw.SeriesSpec(N=N), 12)
    cfg = dw.SmootherConfig(kernel=G, h=h)
    points = []
    evaluate = dw.KernelSpec.evaluate

    def counting_evaluate(self, z):
        points.append(np.size(z))
        return evaluate(self, z)

    monkeypatch.setattr(dw.KernelSpec, "evaluate", counting_evaluate)
    dw.nw_process(series, cfg)
    assert 0 < sum(points) <= dw.kernels.GAUSSIAN_TRUNCATION * h + 2


def test_rolling_uniform_design_matches_plain():
    cfg0 = dw.SmootherConfig(kernel=G, h=5.0)
    cfg1 = dw.SmootherConfig(kernel=G, h=5.0, design=dw.TimeDesign(gamma=1.0, mode="rolling"))
    s = dw.generate(dw.SeriesSpec(N=25), 17)
    assert np.allclose(dw.nw_process(s, cfg0), dw.nw_process(s, cfg1))


def test_fixed_uniform_design_matches_plain():
    td = dw.TimeDesign(gamma=1.0, mode="fixed")
    cfg0 = dw.SmootherConfig(kernel=G, h=5.0)
    cfg1 = dw.SmootherConfig(kernel=G, h=5.0, design=td)
    s = dw.generate(dw.SeriesSpec(N=25, design=td), 17)
    assert np.allclose(dw.nw_process(s, cfg0), dw.nw_process(s, cfg1))


def test_null_scaled_variance_matches_limit():
    # scaled statistic at s=1 (N=500, zeta=2) vs the limit variance
    N, h, reps = 500, 250, 2000
    cfg = dw.SmootherConfig(kernel=G, h=float(h), scaling="null_scale")
    i = np.arange(1, N + 1)
    w = G.evaluate((i - N) / h)
    den = w.sum()
    out = np.empty(reps)
    for r in range(reps):
        rng = np.random.default_rng(dw.substream(909, r))
        y = np.cumsum(rng.standard_normal(N))
        out[r] = (y @ w) / den
    out *= dw.scaling_factor(cfg, N)
    target = dw.sigma_k_sq(dw.LimitConfig(zeta=2.0, kernel=G), 1.0)
    assert abs(out.mean()) < 3 * out.std() / np.sqrt(reps)
    assert out.var() == pytest.approx(target, rel=0.10)
